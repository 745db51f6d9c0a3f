"""Acceptance suite: one test per criterion, each at its stated tolerance and
sample size (n = 1e6 unless the criterion says otherwise). A summary line per
criterion is printed in the terminal summary.

Criterion 9 asserts the load-sharing dominance inequality exactly as stated.
The closed-form survival of X provably crosses exp(-lam x) (at x = 2 ln 3 for
lam=2, beta=2.5), so that clause fails; the test is kept faithful and red
rather than weakened. The probability clause P(X<=Y)=1/3 does hold.
"""

import io
import json
import math

import numpy as np
import pytest

from spcop.copula import (Gaussian, MarshallOlkinConnecting,
                          MarshallOlkinSurvival, Mixture, OrderStatistics,
                          Shuffle, sample_uv, survival_of, transpose,
                          validate_copula)
from spcop.cli import run as cli_run
from spcop.dist import DiscreteAtoms, Exponential, Normal, Uniform
from spcop.oracle import (LoadSharingModel, load_sharing_sample, mo_checks,
                          mo_survival_eta_audit, order_stats_triple_sample)
from spcop.precedence import (eta_discrete_exact, eta_exact, eta_mc,
                              eta_quadrature)

from test_copula import REGISTRY

N = 10 ** 6
ETA_K = 2.0 - math.pi / 2.0


def phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_criterion_01_shuffle_exactness(acceptance):
    u = Uniform(0.0, 1.0)
    worst = 0.0
    for gamma in (0.1, 0.3, 0.5, 0.8, 1.0):
        eta, _ = eta_exact(Shuffle(gamma))
        assert eta == gamma
        est = eta_mc(Shuffle(gamma), u, u, N, seed=101).eta
        worst = max(worst, abs(est - gamma))
    acceptance(1, "shuffle eta equals gamma, closed form and MC", worst <= 0.002,
               f"max |mc - gamma| = {worst:.2e}")
    assert worst <= 0.002


def test_criterion_02_order_statistics_constant(acceptance):
    u = Uniform(0.0, 1.0)
    quad = eta_quadrature(OrderStatistics(), u, u, tol=1e-8).eta
    quad_err = abs(quad - ETA_K)
    mc_err = abs(eta_mc(OrderStatistics(), u, u, N, seed=102).eta - ETA_K)
    ok = quad_err <= 1e-8 and mc_err <= 0.002
    acceptance(2, "order-statistics copula eta = 2 - pi/2", ok,
               f"quad err {quad_err:.2e}, mc err {mc_err:.2e}")
    assert quad_err <= 1e-8
    assert mc_err <= 0.002


def test_criterion_03_gaussian_family(acceptance):
    for rho in np.linspace(-0.95, 0.95, 20):
        assert eta_exact(Gaussian(float(rho))) == (0.5, 0.0)
    worst = 0.0
    for rho in (-0.5, 0.0, 0.5, 0.9):
        est = eta_mc(Gaussian(rho), Normal(0, 1), Normal(1, 1), N, seed=103).eta
        target = phi(1.0 / math.sqrt(2.0 * (1.0 - rho)))
        worst = max(worst, abs(est - target))
    spec = {"family": "gaussian", "start": -0.9, "stop": 0.9, "step": 0.1,
            "g1": {"kind": "normal", "mean": 0, "sd": 1},
            "g2": {"kind": "normal", "mean": 1, "sd": 1}}
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "curve.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        buf = io.StringIO()
        cli_run(["curve", "--spec", path, "--output", "csv"], buf)
    rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][1:]
    etas = [float(r.split(",")[1]) for r in rows]
    increasing = all(b > a for a, b in zip(etas, etas[1:]))
    ok = worst <= 0.002 and increasing
    acceptance(3, "gaussian: eta(C)=1/2, normal-marginal formula, increasing curve",
               ok, f"max MC dev {worst:.2e}, curve increasing: {increasing}")
    assert worst <= 0.002
    assert increasing


def test_criterion_04_marshall_olkin(acceptance):
    r = eta_mc(MarshallOlkinConnecting(0.4, 0.2), Exponential(2.5), Exponential(5.0),
               N, seed=104)
    dev_le = abs(r.eta - 0.2 / 0.52)
    dev_eq = abs(r.xi - 0.08 / 0.52)
    dev_lt = abs((r.eta - r.xi) - 0.12 / 0.52)
    checks = mo_checks(0.4, 0.2, N, seed=105)
    oracle_ok = checks["p_le_ok"] and checks["p_lt_ok"] and checks["p_eq_ok"]
    tie_dev = abs(checks["tie_fraction"] - 0.08 / 0.52)
    ok = max(dev_le, dev_eq, dev_lt, tie_dev) <= 0.002 and oracle_ok
    acceptance(4, "Marshall-Olkin probabilities and structural-tie mass", ok,
               f"devs le/lt/eq/tie = {dev_le:.2e}/{dev_lt:.2e}/{dev_eq:.2e}/{tie_dev:.2e}")
    assert dev_le <= 0.002 and dev_eq <= 0.002 and dev_lt <= 0.002
    assert oracle_ok and tie_dev <= 0.002


def test_criterion_05_transpose_survival_identity(acceptance):
    worst_closed = 0.0
    for spec in REGISTRY:
        eta, xi = eta_exact(spec)
        for image in (transpose(spec), survival_of(spec)):
            eta_im, xi_im = eta_exact(image)
            worst_closed = max(worst_closed, abs(eta_im - (1.0 - eta + xi)),
                               abs(xi_im - xi))
    worst_sigma = 0.0
    u = Uniform(0.0, 1.0)
    for spec in REGISTRY:
        base = eta_mc(spec, u, u, N, seed=106)
        target = 1.0 - base.eta + base.xi
        band_base = math.sqrt(base.stderr_eta ** 2 + base.stderr_xi ** 2)
        for image in (transpose(spec), survival_of(spec)):
            im = eta_mc(image, u, u, N, seed=107)
            band = math.sqrt(band_base ** 2 + im.stderr_eta ** 2)
            if band == 0.0:
                assert im.eta == target
            else:
                worst_sigma = max(worst_sigma, abs(im.eta - target) / band)
    ok = worst_closed <= 1e-10 and worst_sigma <= 3.0
    acceptance(5, "eta(survival)=eta(transpose)=1-eta+xi for every registry spec",
               ok, f"closed dev {worst_closed:.1e}, worst MC z {worst_sigma:.2f}")
    assert worst_closed <= 1e-10
    assert worst_sigma <= 3.0


def test_criterion_06_mixture_linearity(acceptance):
    rng = np.random.default_rng(108)
    pool = REGISTRY + [transpose(s) for s in REGISTRY]
    worst = 0.0
    for _ in range(50):
        c1 = pool[rng.integers(len(pool))]
        c2 = pool[rng.integers(len(pool))]
        a = float(rng.uniform(0.02, 0.98))
        eta, xi = eta_exact(Mixture([c1, c2], [a, 1.0 - a]))
        e1, x1 = eta_exact(c1)
        e2, x2 = eta_exact(c2)
        worst = max(worst, abs(eta - (a * e1 + (1 - a) * e2)),
                    abs(xi - (a * x1 + (1 - a) * x2)))
    acceptance(6, "mixture eta/xi are weight-linear (50 random combos)",
               worst <= 1e-10, f"max dev {worst:.1e}")
    assert worst <= 1e-10


def test_criterion_07_marginal_invariance(acceptance):
    marginals = [Uniform(0.0, 1.0), Exponential(1.0), Normal(0.0, 1.0)]
    worst_z = 0.0
    for spec in REGISTRY:
        reports = [eta_mc(spec, g, g, N, seed=109 + i) for i, g in enumerate(marginals)]
        for i in range(3):
            for j in range(i + 1, 3):
                band = math.sqrt(reports[i].stderr_eta ** 2 + reports[j].stderr_eta ** 2)
                diff = abs(reports[i].eta - reports[j].eta)
                if band == 0.0:
                    assert diff == 0.0
                else:
                    worst_z = max(worst_z, diff / band)
    acceptance(7, "eta is invariant across equal class-G marginals", worst_z <= 3.0,
               f"worst pairwise z = {worst_z:.2f}")
    assert worst_z <= 3.0


def _random_atoms(rng, lo=-2.0, hi=2.0, max_atoms=10):
    m = int(rng.integers(2, max_atoms + 1))
    xs = np.sort(rng.uniform(lo, hi, m))
    xs += np.arange(m) * 1e-9  # enforce strict increase
    ps = rng.dirichlet(np.ones(m))
    return DiscreteAtoms(tuple(zip(xs.tolist(), ps.tolist())))


def test_criterion_08_monotonicity_and_lower_bound(acceptance):
    rng = np.random.default_rng(110)
    violations = 0
    trials_a = trials_b = 0

    # Prop-style monotonicity in the second marginal: G2 st-precedes G2'
    for k in range(200):
        spec = REGISTRY[rng.integers(len(REGISTRY))]
        if k < 140:
            g1 = _random_atoms(rng)
            g2 = _random_atoms(rng)
            shift = float(rng.uniform(0.05, 1.0))
            g2p = DiscreteAtoms(tuple((x + shift, p) for x, p in g2.points))
            lo = eta_discrete_exact(spec, g1, g2).eta
            hi = eta_discrete_exact(spec, g1, g2p).eta
            if lo > hi + 1e-10:
                violations += 1
        else:
            g1 = Normal(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
            s2 = float(rng.uniform(0.5, 2))
            b = float(rng.uniform(-1, 1))
            shift = float(rng.uniform(0.3, 1.2))
            g2, g2p = Normal(b, s2), Normal(b + shift, s2)
            if spec.absolutely_continuous:
                lo = eta_quadrature(spec, g1, g2, 1e-8).eta
                hi = eta_quadrature(spec, g1, g2p, 1e-8).eta
                if lo > hi + 1e-7:
                    violations += 1
            else:
                r_lo = eta_mc(spec, g1, g2, 20_000, seed=111 + k)
                r_hi = eta_mc(spec, g1, g2p, 20_000, seed=112 + k)
                band = 3.0 * math.sqrt(r_lo.stderr_eta ** 2 + r_hi.stderr_eta ** 2)
                if r_lo.eta > r_hi.eta + band:
                    violations += 1
        trials_a += 1

    # D(R) lower bound: G st-precedes H implies eta(C,G,H) >= eta(C)
    for k in range(200):
        spec = REGISTRY[rng.integers(len(REGISTRY))]
        eta_c = eta_exact(spec)[0]
        if k < 140:
            g = _random_atoms(rng)
            shift = float(rng.uniform(0.0, 1.0))
            h = DiscreteAtoms(tuple((x + shift, p) for x, p in g.points))
            val = eta_discrete_exact(spec, g, h).eta
            if val < eta_c - 1e-10:
                violations += 1
        else:
            mu = float(rng.uniform(-1, 1))
            sd = float(rng.uniform(0.5, 2))
            shift = float(rng.uniform(0.3, 1.2))
            g, h = Normal(mu, sd), Normal(mu + shift, sd)
            r = eta_mc(spec, g, h, 20_000, seed=113 + k)
            if r.eta < eta_c - 3.0 * r.stderr_eta:
                violations += 1
        trials_b += 1

    ok = violations == 0 and trials_a == 200 and trials_b == 200
    acceptance(8, "monotonicity and lower-bound properties, 200 trials each",
               ok, f"violations = {violations}")
    assert violations == 0


def test_criterion_09_load_sharing_counterexample(acceptance):
    model = LoadSharingModel(2.0, 2.5)
    x, y = load_sharing_sample(model, N, seed=114)
    p = float(np.mean(x <= y))
    prob_ok = abs(p - 1.0 / 3.0) <= 0.002 and p < 0.5

    qs = (np.arange(32) + 0.5) / 32
    ts = -np.log1p(-qs) / model.lam
    emp_surv = np.array([np.mean(x > t) for t in ts])
    bench = np.exp(-model.lam * ts)
    se = np.sqrt(np.maximum(emp_surv * (1.0 - emp_surv), 1e-12) / N)
    dominance_ok = bool(np.all(emp_surv <= bench + 3.0 * se))
    max_excess = float(np.max(emp_surv - bench))

    acceptance(9, "load-sharing: survival dominated by exp(-lam x) AND P(X<=Y)=1/3",
               prob_ok and dominance_ok,
               f"P(X<=Y)={p:.5f} ok={prob_ok}; dominance ok={dominance_ok}, "
               f"max excess {max_excess:.4f} (survival curves cross at 2 ln 3)")
    assert prob_ok
    # As stated, X must be st-dominated by Y; the model's survival crosses
    # exp(-lam x) on (0, 2 ln 3), so this clause fails by ~0.11, far beyond
    # Monte Carlo noise. Kept faithful to the stated criterion.
    assert dominance_ok, (
        f"empirical survival of X exceeds exp(-lam x) by up to {max_excess:.4f} "
        "on the 32-point grid; the dominance claim does not hold for this model")


def test_criterion_10_order_stats_counterexample(acceptance):
    t, xp, xpp = order_stats_triple_sample(N, seed=115)
    p1_exact = bool(np.all(t <= xp))
    p2 = float(np.mean(t <= xpp))
    qs = np.linspace(0.03, 0.97, 32)
    cdf_p = np.array([np.mean(xp <= s) for s in qs])
    cdf_pp = np.array([np.mean(xpp <= s) for s in qs])
    dkw = 4.0 / math.sqrt(N)
    st_ok = bool(np.all(cdf_p >= cdf_pp - 2 * dkw))
    ok = p1_exact and abs(p2 - 0.9) <= 0.002 and st_ok
    acceptance(10, "order-stats triple: P(T<=X')=1, P(T<=X'')=0.9, X' st X''",
               ok, f"P(T<=X'')={p2:.5f}")
    assert p1_exact
    assert abs(p2 - 0.9) <= 0.002
    assert st_ok


def test_criterion_11_copula_validation(acceptance):
    all_pass = True
    for spec in REGISTRY:
        violations = validate_copula(spec, grid=64)
        all_pass = all_pass and not violations
        assert violations == [], spec
    rng = np.random.default_rng(116)
    specs = REGISTRY + [Mixture([Shuffle(0.6), Gaussian(-0.7)], [0.5, 0.5]),
                        survival_of(MarshallOlkinSurvival(0.8, 0.3))]
    per_spec = 100_000 // len(specs)
    worst = 0.0
    for spec in specs:
        u = rng.random(per_spec)
        v = rng.random(per_spec)
        c = np.asarray(spec.cdf(u, v))
        lower = np.maximum(u + v - 1.0, 0.0)
        upper = np.minimum(u, v)
        worst = max(worst, float(np.max(lower - c)), float(np.max(c - upper)))
    ok = all_pass and worst <= 1e-9
    acceptance(11, "copula axioms at grid=64; Frechet bounds on 1e5 points",
               ok, f"worst bound excursion {worst:.1e}")
    assert all_pass
    assert worst <= 1e-9


def test_criterion_12_cli_determinism(acceptance, tmp_path):
    docs = {
        "mc.json": {"copula": {"node": "mo_survival", "alpha1": 0.4, "alpha2": 0.2},
                    "g1": {"kind": "uniform", "a": 0, "b": 1},
                    "g2": {"kind": "exponential", "rate": 1.0}},
        "sample.json": {"copula": {"node": "gaussian", "rho": 0.5}},
        "rank.json": {"target": {"kind": "normal", "mean": 0, "sd": 1},
                      "prospects": [{"name": "A",
                                     "marginal": {"kind": "normal", "mean": 1, "sd": 1},
                                     "copula": {"node": "gaussian", "rho": 0.5}}]},
    }
    for name, obj in docs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    commands = [
        ["eta", "--spec", str(tmp_path / "mc.json"), "--samples", "1000000",
         "--seed", "12", "--workers", "2"],
        ["sample", "--spec", str(tmp_path / "sample.json"), "--samples", "100000",
         "--seed", "12", "--output", "csv"],
        ["rank", "--spec", str(tmp_path / "rank.json"), "--seed", "12"],
        ["verify", "--samples", "100000", "--seed", "12"],
    ]
    identical = True
    for argv in commands:
        out1, out2 = io.StringIO(), io.StringIO()
        cli_run(list(argv), out1)
        cli_run(list(argv), out2)
        identical = identical and (out1.getvalue() == out2.getvalue())
        assert out1.getvalue() == out2.getvalue(), argv
    acceptance(12, "CLI runs are byte-identical for fixed seed and workers", identical)


def test_criterion_13_mo_survival_eta_audit(acceptance):
    audit = mo_survival_eta_audit(N, seed=117)
    rows = {(r["alpha1"], r["alpha2"]): r for r in audit["rows"]}
    off_ok = (rows[(0.4, 0.2)]["matching_branch"] == "alpha1>alpha2"
              and rows[(0.2, 0.4)]["matching_branch"] == "alpha1<=alpha2")
    diag = rows[(0.3, 0.3)]
    diag_dev = abs(diag["mc_eta"] - 1.0 / 1.7)
    registry_matches = eta_exact(MarshallOlkinSurvival(0.3, 0.3))[0] == pytest.approx(1.0 / 1.7)
    ok = off_ok and audit["off_diagonal_ok"] and diag_dev <= 0.002 and registry_matches
    acceptance(13, "MO survival-form eta formula audited against MC",
               ok, f"diagonal eta {diag['mc_eta']:.5f} vs 1/(2-a) = {1/1.7:.5f}; "
                   f"{audit['diagonal_resolution']}")
    assert off_ok and audit["off_diagonal_ok"]
    assert diag_dev <= 0.002
    assert registry_matches
