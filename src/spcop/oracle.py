"""Construction-based simulators and bracketing integrators used as ground
truth against the main estimators.

Nothing here reuses the copula samplers or the eta estimators; agreement
between the two routes is evidence, not tautology. Shared surface is limited
to the Distribution type and the copula cdf (for the certified grid bracket).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import (CopulaSpec, Independence, MarshallOlkinConnecting,
                     OrderStatistics, Shuffle, sample_uv)
from .dist import Distribution, Uniform
from .errors import SpecError
from .rng import blocks, make_stream, open_uniform, run_all

__all__ = [
    "LoadSharingModel", "load_sharing_sample", "load_sharing_survival",
    "load_sharing_checks", "order_stats_triple_sample", "order_stats_checks",
    "mo_construction_sample", "mo_checks", "mo_survival_eta_audit",
    "grid_eta_oracle", "run_verification",
]

_CHECK_GRID = 32  # points of the load-sharing and order-statistics curve checks
# run_verification's floor: below it some tolerances cover all of [0, 1], so a
# check could not fail; at it every tolerance is below 0.1
MIN_SAMPLES = 10_000
# (alpha1, alpha2) of the survival-form eta audit: one per branch, and the diagonal
_AUDIT_PAIRS = ((0.4, 0.2), (0.2, 0.4), (0.3, 0.3))


def _tol(var, n):
    """3 sigma of a mean of n draws of variance var, floored at 0.002: the
    floor is calibrated for n=1e6, where every 3 sigma here stays below it."""
    return max(0.002, 3.0 * math.sqrt(var / n))


def _share(test, x, y):
    """np.mean(test(x, y)) without its n-point mask: the count, summed block by
    block, over n is correctly rounded, as np.mean's is."""
    return sum(np.count_nonzero(test(x[b], y[b])) for b in blocks(len(x))) / len(x)


def _counts_le(x, ts):
    """How many of x lie at or below each t, from one sort; count / n has the
    bits of np.mean(x <= t), as in _empirical_copula."""
    return np.searchsorted(np.sort(x), ts, side="right")


@dataclass(frozen=True)
class LoadSharingModel:
    """Exponential pair under load sharing: Y ~ exp(lam); X runs at hazard 1
    while Y is alive and at hazard beta afterwards. Standing assumption
    1 < lam < beta < 1 + lam."""

    lam: float
    beta: float

    def __post_init__(self):
        if not (1.0 < self.lam < self.beta < 1.0 + self.lam):
            raise SpecError(
                f"need 1 < lam < beta < 1+lam, got lam={self.lam}, beta={self.beta}")


def load_sharing_sample(model: LoadSharingModel, n: int, seed: int):
    """(x, y) pairs via the hazard time change: X = E1 while E1 < Y, else
    Y + (E1 - Y)/beta."""
    rng = make_stream(seed)
    e1 = rng.exponential(1.0, n)
    y = rng.exponential(1.0 / model.lam, n)
    x = np.where(e1 < y, e1, y + (e1 - y) / model.beta)
    return x, y


def load_sharing_survival(model: LoadSharingModel, x):
    """Closed-form P(X > x)."""
    lam, beta = model.lam, model.beta
    k = lam / (1.0 + lam - beta)
    x = np.asarray(x, dtype=float)
    return (1.0 - k) * np.exp(-(1.0 + lam) * x) + k * np.exp(-beta * x)


def load_sharing_checks(model: LoadSharingModel, n: int, seed: int) -> dict:
    """Differential checks for the load-sharing pair.

    Note the dominance check reports what the data shows: the closed-form
    survival of X crosses exp(-lam x) (at 2*ln3 for lam=2, beta=2.5), so X is
    *not* stochastically dominated by Y on the bulk of the support even though
    P(X <= Y) = 1/(1+lam) < 1/2.
    """
    x, y = load_sharing_sample(model, n, seed)
    p_le = float(np.mean(x <= y))
    p_expected = 1.0 / (1.0 + model.lam)

    # quantile-spaced grid of Y's scale covering the bulk of both laws
    qs = (np.arange(_CHECK_GRID) + 0.5) / _CHECK_GRID
    ts = -np.log1p(-qs) / model.lam
    emp_surv = (n - _counts_le(x, ts)) / n  # the bits of np.mean(x > t)
    closed = load_sharing_survival(model, ts)
    surv_se = np.sqrt(np.maximum(emp_surv * (1.0 - emp_surv), 1e-12) / n)
    formula_dev = float(np.max(np.abs(emp_surv - closed)))

    bench = np.exp(-model.lam * ts)
    excess = emp_surv - bench  # > 0 means X survives more than Y there
    dominated = bool(np.all(excess <= 3.0 * surv_se))
    return {
        "p_x_le_y": p_le,
        "p_x_le_y_expected": p_expected,
        "p_x_le_y_ok": abs(p_le - p_expected) <= _tol(p_le * (1.0 - p_le), n),
        "survival_formula_max_dev": formula_dev,
        "survival_formula_ok": formula_dev <= 5.0 * float(np.max(surv_se)) + 1e-4,
        "st_dominated_by_y": dominated,
        "max_dominance_excess": float(np.max(excess)),
        "grid": [float(t) for t in ts],
    }


def order_stats_triple_sample(n: int, seed: int, base: Distribution = Uniform(0.0, 1.0)):
    """(t, x', x'') with t = min of two iid draws, x' their max, x'' the max
    of three more iid draws from the same base law.

    Rows are drawn and reduced in blocks: consecutive draws continue one
    Philox stream and every step is pointwise per row, so the block size
    changes no bit."""
    rng = make_stream(seed)
    t, x_prime, x_double = np.empty(n), np.empty(n), np.empty(n)
    for b in blocks(n):
        draws = base.quantile(open_uniform(rng, 5 * (b.stop - b.start)).reshape(-1, 5))
        np.minimum(draws[:, 0], draws[:, 1], out=t[b])
        np.maximum(draws[:, 0], draws[:, 1], out=x_prime[b])
        np.max(draws[:, 2:], axis=1, out=x_double[b])
    return t, x_prime, x_double


def order_stats_checks(n: int, seed: int) -> dict:
    t, xp, xpp = order_stats_triple_sample(n, seed)
    p1 = float(np.mean(t <= xp))
    p2 = float(np.mean(t <= xpp))
    # independent 1-D quadrature oracle for P(T <= X''): integral of
    # (1-(1-x)^2) d(x^3) over [0,1]
    xs = np.linspace(0.0, 1.0, 20001)
    integrand = (1.0 - (1.0 - xs) ** 2) * 3.0 * xs ** 2
    p2_oracle = float(np.trapezoid(integrand, xs))
    ts = (np.arange(_CHECK_GRID) + 1.0) / (_CHECK_GRID + 1.0)
    cdf_p = _counts_le(xp, ts) / n
    cdf_pp = _counts_le(xpp, ts) / n
    dkw = 4.0 / math.sqrt(n)
    st_ok = bool(np.all(cdf_p >= cdf_pp - 2.0 * dkw))
    return {
        "p_t_le_xprime": p1,
        "p_t_le_xprime_ok": p1 == 1.0,
        "p_t_le_xdouble": p2,
        "p_t_le_xdouble_oracle": p2_oracle,
        "p_t_le_xdouble_ok": abs(p2 - p2_oracle) <= _tol(0.09, n),
        "xprime_st_xdouble": st_ok,
    }


def mo_construction_sample(alpha1: float, alpha2: float, n: int, seed: int):
    """Common-shock exponential construction: X1 = V ^ Z, X2 = W ^ Z with
    rates (1/a1 - 1, 1/a2 - 1, 1); the tie flag marks Z <= V ^ W."""
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise SpecError("alphas must lie in (0,1)")
    rng = make_stream(seed)
    v = rng.exponential(1.0 / (1.0 / alpha1 - 1.0), n)
    w = rng.exponential(1.0 / (1.0 / alpha2 - 1.0), n)
    z = rng.exponential(1.0, n)
    # the tie flag first, so the two minima can overwrite their own shocks
    tie = z <= np.minimum(v, w)
    return np.minimum(v, z, out=v), np.minimum(w, z, out=w), tie


def _empirical_copula(u, v, qs):
    """Share of points with u <= qs[a] and v <= qs[b], for every (a, b), in one
    counting pass: bins from searchsorted (side left: u <= qs[k] iff bin <= k),
    counted block by block, a 2-D cumsum of the bin counts, then count / n,
    which has np.mean's bits."""
    m = len(qs) + 1
    counts = np.zeros(m * m, dtype=np.int64)
    for b in blocks(len(u)):
        counts += np.bincount(np.searchsorted(qs, u[b]) * m + np.searchsorted(qs, v[b]),
                              minlength=m * m)
    return counts.reshape(m, m).cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / len(u)


def mo_checks(alpha1: float, alpha2: float, n: int, seed: int) -> dict:
    x1, x2, tie = mo_construction_sample(alpha1, alpha2, n, seed)
    den = alpha1 + alpha2 - alpha1 * alpha2
    p_le, p_lt, p_eq = (_share(np.less_equal, x1, x2), _share(np.less, x1, x2),
                        _share(np.equal, x1, x2))
    expect = {"p_le": alpha2 / den, "p_lt": (1.0 - alpha1) * alpha2 / den,
              "p_eq": alpha1 * alpha2 / den}
    tie_frac = np.count_nonzero(tie) / n

    def tol(p):
        return _tol(p * (1.0 - p), n)

    # empirical copula of the construction vs the library's connecting sampler;
    # the construction's arrays go before the sampler draws its own
    qs = np.linspace(1.0 / 16, 15.0 / 16, 15)
    u1 = -np.expm1(-x1 / alpha1)
    del x1, tie
    emp1 = _empirical_copula(u1, -np.expm1(-x2 / alpha2), qs)
    del x2, u1
    u2, v2, _, _ = sample_uv(MarshallOlkinConnecting(alpha1, alpha2), n, seed + 1)
    emp2 = _empirical_copula(u2, v2, qs)
    dkw = 4.0 * (1.0 / math.sqrt(n) + 1.0 / math.sqrt(n))
    cop_dev = float(np.max(np.abs(emp1 - emp2)))
    return {
        "p_x1_le_x2": p_le, "p_x1_lt_x2": p_lt, "p_x1_eq_x2": p_eq,
        "expected": expect,
        "p_le_ok": abs(p_le - expect["p_le"]) <= tol(expect["p_le"]),
        "p_lt_ok": abs(p_lt - expect["p_lt"]) <= tol(expect["p_lt"]),
        "p_eq_ok": abs(p_eq - expect["p_eq"]) <= tol(expect["p_eq"]),
        "tie_fraction": tie_frac,
        "tie_matches_singular_mass": abs(tie_frac - expect["p_eq"]) <= tol(expect["p_eq"]),
        "copula_sampler_max_dev": cop_dev,
        "copula_sampler_ok": cop_dev <= dkw,
    }


def mo_survival_eta_audit(n: int, seed: int) -> dict:
    """Audit the piecewise closed form of eta for the survival-form copula.

    MC estimates come from the raw construction mapped through the survival
    functions (u = exp(-x/alpha)); each is compared against both branches of
    the piecewise formula. The diagonal is where the branches disagree, so the
    audit records which branch the measurement selects.
    """
    rows = []
    for i, (a1, a2) in enumerate(_AUDIT_PAIRS):
        est = _survival_eta(a1, a2, n, seed + i)
        tol = _tol(est * (1.0 - est), n)
        branch_le = 1.0 / (2.0 - a1)          # formula branch for a1 <= a2
        branch_gt = (1.0 - a2) / (2.0 - a2)   # formula branch for a1 > a2
        matches = ("alpha1<=alpha2" if abs(est - branch_le) <= tol else
                   "alpha1>alpha2" if abs(est - branch_gt) <= tol else "neither")
        rows.append({
            "alpha1": a1, "alpha2": a2, "mc_eta": est,
            "branch_le_value": branch_le, "branch_gt_value": branch_gt,
            "matching_branch": matches, "diagonal": a1 == a2,
        })
    off_ok = all(r["matching_branch"] != "neither" for r in rows if not r["diagonal"])
    diag = [r for r in rows if r["diagonal"]]
    diag_resolution = (
        "eta at alpha1=alpha2 equals 1/(2-alpha), the alpha1<=alpha2 branch limit"
        if all(r["matching_branch"] == "alpha1<=alpha2" for r in diag) else
        "diagonal measurement did not match the alpha1<=alpha2 branch")
    return {"rows": rows, "off_diagonal_ok": off_ok, "diagonal_resolution": diag_resolution}


def _survival_eta(a1, a2, n, seed):
    """Share of u <= v, with u = exp(-x1/a1) and v = exp(-x2/a2) from the
    construction; x1 goes before v is mapped, and the rest on return."""
    x1, x2, _ = mo_construction_sample(a1, a2, n, seed)
    u = np.exp(-x1 / a1)
    del x1
    return _share(np.less_equal, u, np.exp(-x2 / a2))


def grid_eta_oracle(spec: CopulaSpec, g1: Distribution, g2: Distribution,
                    grid: int = 512):
    """Certified bracket (eta_low, eta_high) for eta(spec, g1, g2).

    Partitions [0,1]^2 into grid^2 cells, sums the copula mass of cells whose
    quantile images lie entirely inside {x1 <= x2} (lower bound) and adds the
    straddling cells' mass for the upper bound.
    """
    if grid < 16:
        raise SpecError("oracle grid must be at least 16")
    edges = np.linspace(0.0, 1.0, grid + 1)
    cc = spec.cdf(edges[:, None], edges[None, :])
    masses = np.maximum(cc[1:, 1:] - cc[:-1, 1:] - cc[1:, :-1] + cc[:-1, :-1], 0.0)
    q1 = g1.quantile(edges)
    q2 = g2.quantile(edges)
    with np.errstate(invalid="ignore"):
        inside = q1[1:, None] <= q2[None, :-1]    # worst corner still inside
        outside = q1[:-1, None] > q2[None, 1:]    # best corner already outside
    # widen by the float-accumulation allowance of ~grid^2 mass roundings
    slack = 1e-9
    eta_low = float(np.sum(masses[inside])) - slack
    eta_high = float(1.0 - np.sum(masses[outside & ~inside])) + slack
    return max(min(eta_low, 1.0), 0.0), min(max(eta_high, eta_low), 1.0)


def run_verification(n: int = 10 ** 6, seed: int = 20240801) -> dict:
    """All oracle differential checks as a machine-readable report."""
    if n < MIN_SAMPLES:
        raise SpecError(f"verification needs n >= {MIN_SAMPLES}, got {n}")
    # each sampled group draws from its own Philox streams, so running them
    # at once on the chunk pool changes no bit
    mo, audit, ls, os_checks = run_all([
        (mo_checks, 0.4, 0.2, n, seed), (mo_survival_eta_audit, n, seed + 10),
        (load_sharing_checks, LoadSharingModel(2.0, 2.5), n, seed + 20),
        (order_stats_checks, n, seed + 30)])
    checks = []
    checks.append({"name": "mo_probabilities", "passed": bool(
        mo["p_le_ok"] and mo["p_lt_ok"] and mo["p_eq_ok"] and mo["tie_matches_singular_mass"]),
        "detail": {k: mo[k] for k in ("p_x1_le_x2", "p_x1_lt_x2", "p_x1_eq_x2",
                                      "expected", "tie_fraction")}})
    checks.append({"name": "mo_vs_copula_sampler", "passed": bool(mo["copula_sampler_ok"]),
                   "detail": {"max_dev": mo["copula_sampler_max_dev"]}})
    checks.append({"name": "mo_survival_eta_audit", "passed": bool(audit["off_diagonal_ok"]),
                   "detail": audit})
    checks.append({"name": "load_sharing_probability", "passed": bool(ls["p_x_le_y_ok"]),
                   "detail": {"p_x_le_y": ls["p_x_le_y"],
                              "expected": ls["p_x_le_y_expected"]}})
    checks.append({"name": "load_sharing_survival_formula",
                   "passed": bool(ls["survival_formula_ok"]),
                   "detail": {"max_dev": ls["survival_formula_max_dev"]}})
    checks.append({"name": "load_sharing_st_dominance", "passed": bool(ls["st_dominated_by_y"]),
                   "detail": {"max_dominance_excess": ls["max_dominance_excess"],
                              "note": "survival of X crosses exp(-lam x); "
                                      "dominance fails on the bulk of the support"}})
    checks.append({"name": "order_stats_triple", "passed": bool(
        os_checks["p_t_le_xprime_ok"] and os_checks["p_t_le_xdouble_ok"]
        and os_checks["xprime_st_xdouble"]), "detail": os_checks})

    gu = Uniform(0.0, 1.0)
    brackets = []
    for name, spec, target, g in [
            ("independence", Independence(), 0.5, 256),
            ("shuffle_0.3", Shuffle(0.3), 0.3, 512),
            ("order_statistics", OrderStatistics(), 2.0 - math.pi / 2.0, 512)]:
        lo, hi = grid_eta_oracle(spec, gu, gu, g)
        brackets.append({"spec": name, "low": lo, "high": hi, "target": target,
                         "ok": lo - 1e-9 <= target <= hi + 1e-9})
    checks.append({"name": "grid_oracle_brackets",
                   "passed": all(b["ok"] for b in brackets),
                   "detail": {"brackets": brackets}})

    return {"n": n, "seed": seed, "passed": all(c["passed"] for c in checks),
            "checks": checks}
