#!/usr/bin/env python3
"""Regenerate bench/refs.json, the reference answers the benchmark checks.

    python3 bench/make_refs.py

Run it only at a commit whose answers are trusted; the stored file is the
contract later commits are held to. References, per check kind:

- eta on the quadrature or discrete_exact route: an independent value from
  scipy. Gaussian-family copulas (survival and transpose of a Gaussian copula
  are the same copula) use a 1-D integral over the first normal score;
  the order-statistics copula a 1-D integral over the smaller uniform; atom
  pairs a double sum of rectangle masses, with the Gaussian cdf from Owen's T
  function. Tolerance 1e-8 for quadrature, 1e-9 for discrete sums. The value
  the program gave at generation time is stored beside it.
- eta on the Monte Carlo route: the program's own eta_mc over MC_REF_CHUNKS
  independent 1e6-sample streams, with its pooled standard error. Answers
  must fall within MC_TOL_SIGMAS (run.py) combined standard errors.
- rank rows: the same rules per prospect; gamma_bound rows are exact.
- sample, curve, order, classify, verify: sha256 of stdout.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import integrate, special, stats

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

MC_REF_CHUNKS = 10
MC_REF_SEED = 7_000_000
QUAD_TOL = 1e-8
DISCRETE_TOL = 1e-9


# ---------------------------------------------------------------------------
# independent values


def _scipy_dist(d):
    kind = d["kind"]
    if kind == "normal":
        return stats.norm(d["mean"], d["sd"])
    if kind == "exponential":
        return stats.expon(scale=1.0 / d["rate"])
    if kind == "uniform":
        return stats.uniform(d["a"], d["b"] - d["a"])
    raise ValueError(kind)


def gaussian_eta(rho, g1, g2):
    """P(G1^-1(Phi(Z1)) <= G2^-1(Phi(Z2))), (Z1, Z2) standard binormal:
    integral over z of phi(z) P(Z2 >= h(z) | Z1 = z), h = Phi^-1 o G2 o G1^-1 o Phi,
    evaluated on the upper-tail side for z > 0 to keep precision."""
    d1, d2 = _scipy_dist(g1), _scipy_dist(g2)
    s = math.sqrt(1.0 - rho * rho)

    def f(z):
        if z <= 0.0:
            h = special.ndtri(d2.cdf(d1.ppf(special.ndtr(z))))
        else:
            h = -special.ndtri(d2.sf(d1.isf(special.ndtr(-z))))
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * special.ndtr(-(h - rho * z) / s)

    total = 0.0
    for a, b in ((-40.0, -4.0), (-4.0, 0.0), (0.0, 4.0), (4.0, 40.0)):
        val, _err = integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=1000)
        total += val
    return total


def order_stats_eta(g1, g2):
    """(U, V) = (1-(1-S)^2, T^2), S < T the order statistics of two uniforms,
    so eta = 2 * integral_0^1 (1 - max(s, tau(s))) ds with
    tau(s) = sqrt(G2(G1^-1(s (2 - s))))."""
    d1, d2 = _scipy_dist(g1), _scipy_dist(g2)

    def f(s):
        tau = math.sqrt(d2.cdf(d1.ppf(s * (2.0 - s))))
        return 1.0 - max(s, tau)

    val, _err = integrate.quad(f, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=1000)
    return 2.0 * val


def _bvn(h, k, rho):
    """Standard binormal cdf by Owen's T function (Owen 1956)."""
    s = math.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ah = np.where(h != 0, (k - rho * h) / (h * s), np.sign(k - rho * h) * np.inf)
        ak = np.where(k != 0, (h - rho * k) / (k * s), np.sign(h - rho * k) * np.inf)
    beta = np.where((h * k > 0) | ((h * k == 0) & (h + k >= 0)), 0.0, 0.5)
    out = (0.5 * special.ndtr(h) + 0.5 * special.ndtr(k)
           - special.owens_t(h, ah) - special.owens_t(k, ak) - beta)
    return np.where((h == 0) & (k == 0), 0.25 + math.asin(rho) / (2.0 * math.pi), out)


def copula_cdf(node, u, v):
    """Textbook cdfs of the copula nodes, on an interior (u, v) grid."""
    kind = node["node"]
    if kind == "gaussian":
        return _bvn(special.ndtri(u), special.ndtri(v), node["rho"])
    if kind == "independence":
        return u * v
    if kind == "comonotone":
        return np.minimum(u, v)
    if kind == "countermonotone":
        return np.maximum(u + v - 1.0, 0.0)
    if kind == "shuffle":
        g = node["gamma"]
        return np.minimum(np.minimum(u, v), np.maximum(u - g, 0.0) + np.maximum(v + g - 1.0, 0.0))
    if kind == "mo_survival":
        a1, a2 = node["alpha1"], node["alpha2"]
        return np.minimum(u ** (1.0 - a1) * v, u * v ** (1.0 - a2))
    if kind == "mo_connecting":
        inner = dict(node, node="mo_survival")
        return u + v - 1.0 + copula_cdf(inner, 1.0 - u, 1.0 - v)
    if kind == "mixture":
        return sum(w * copula_cdf(c, u, v) for w, c in zip(node["weights"], node["components"]))
    raise ValueError(kind)


def discrete_eta(node, g1, g2):
    xs = np.array([x for x, _ in g1["points"]])
    ys = np.array([y for y, _ in g2["points"]])
    ue = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g1["points"]]), 1.0)])
    ve = np.concatenate([[0.0], np.minimum(np.cumsum([p for _, p in g2["points"]]), 1.0)])
    ue[-1] = ve[-1] = 1.0
    uu, vv = np.meshgrid(ue, ve, indexing="ij")
    cc = np.zeros_like(uu)
    inner = (uu > 0) & (uu < 1) & (vv > 0) & (vv < 1)
    cc[inner] = copula_cdf(node, uu[inner], vv[inner])
    cc[uu >= 1.0] = vv[uu >= 1.0]
    cc[vv >= 1.0] = uu[vv >= 1.0]
    cc[(uu <= 0.0) | (vv <= 0.0)] = 0.0
    masses = cc[1:, 1:] - cc[:-1, 1:] - cc[1:, :-1] + cc[:-1, :-1]
    le = xs[:, None] <= ys[None, :]
    eq = xs[:, None] == ys[None, :]
    return float(np.sum(masses[le])), float(np.sum(masses[eq]))


def _gaussian_parts(node):
    """[(weight, rho)] when the copula is a mixture of Gaussian copulas
    (independence is rho=0; survival and transpose leave a Gaussian
    copula unchanged), else None."""
    kind = node["node"]
    if kind == "gaussian":
        return [(1.0, node["rho"])]
    if kind == "independence":
        return [(1.0, 0.0)]
    if kind in ("survival", "transpose"):
        return _gaussian_parts(node["inner"])
    if kind == "mixture":
        out = []
        for w, c in zip(node["weights"], node["components"]):
            parts = _gaussian_parts(c)
            if parts is None:
                return None
            out += [(w * pw, rho) for pw, rho in parts]
        return out
    return None


def independent_eta(doc):
    """(eta, xi, source, tol) or None."""
    node, g1, g2 = doc["copula"], doc["g1"], doc["g2"]
    if g1["kind"] == "atoms" and g2["kind"] == "atoms":
        eta, xi = discrete_eta(node, g1, g2)
        return eta, xi, "independent: atom-rectangle sum, Owen's T binormal cdf", DISCRETE_TOL
    parts = _gaussian_parts(node)
    if parts is not None:
        if len(parts) == 1 and g1["kind"] == g2["kind"] == "normal":
            (_, rho), = parts
            z = (g2["mean"] - g1["mean"]) / math.sqrt(
                g1["sd"] ** 2 + g2["sd"] ** 2 - 2.0 * rho * g1["sd"] * g2["sd"])
            return float(special.ndtr(z)), 0.0, "closed form: Gaussian copula, normal marginals", QUAD_TOL
        eta = math.fsum(w * gaussian_eta(rho, g1, g2) for w, rho in parts)
        return eta, 0.0, "independent: scipy quad over the first normal score", QUAD_TOL
    if node["node"] == "order_statistics":
        return order_stats_eta(g1, g2), 0.0, "independent: scipy quad over the smaller uniform", QUAD_TOL
    return None


def st_holds(target, marginal):
    """Analytic st order for the same-family pairs the rank documents use."""
    if target["kind"] == marginal["kind"] == "exponential":
        return target["rate"] >= marginal["rate"]
    if target["kind"] == marginal["kind"] == "normal" and target["sd"] == marginal["sd"]:
        return target["mean"] <= marginal["mean"]
    raise ValueError("no analytic st rule for this pair")


# ---------------------------------------------------------------------------
# program values


def _load(copula, g1, g2):
    from spcop import copula_from_json, dist_from_json
    return copula_from_json(copula), dist_from_json(g1), dist_from_json(g2)


def mc_reference(spec, g1, g2):
    from spcop import eta_mc
    reps = [eta_mc(spec, g1, g2, workloads.MC_SAMPLES, MC_REF_SEED + i, 1)
            for i in range(MC_REF_CHUNKS)]
    n = workloads.MC_SAMPLES * MC_REF_CHUNKS
    eta = math.fsum(r.eta for r in reps) / MC_REF_CHUNKS
    xi = math.fsum(r.xi for r in reps) / MC_REF_CHUNKS
    return ({"value": eta, "tol": 0.0, "se": math.sqrt(eta * (1.0 - eta) / n)},
            {"value": xi, "tol": 0.0, "se": math.sqrt(xi * (1.0 - xi) / n)})


def pair_reference(copula, g1, g2, label):
    """References for (eta, xi) of one copula + marginal pair."""
    from spcop import best_eta_report
    spec, d1, d2 = _load(copula, g1, g2)
    t0 = time.perf_counter()
    seed_report = best_eta_report(spec, d1, d2, n=workloads.MC_SAMPLES, seed=0, tol=1e-9)
    seconds = time.perf_counter() - t0
    route = seed_report.method
    if route == "monte_carlo":
        eta, xi = mc_reference(spec, d1, d2)
        source = f"program eta_mc, {MC_REF_CHUNKS} x {workloads.MC_SAMPLES} samples"
    else:
        indep = independent_eta({"copula": copula, "g1": g1, "g2": g2})
        if indep is None:
            raise SystemExit(f"{label}: no independent reference for route {route}")
        value, xi_value, source, tol = indep
        eta = {"value": value, "tol": tol, "se": 0.0}
        xi = {"value": xi_value, "tol": tol, "se": 0.0}
        for name, ref, got in (("eta", eta, seed_report.eta), ("xi", xi, seed_report.xi)):
            if abs(got - ref["value"]) > ref["tol"]:
                raise SystemExit(f"{label}: program {name}={got!r} disagrees with "
                                 f"{source} {ref['value']!r}")
    print(f"  {label:<36} {route:<15} {seconds:7.3f}s eta={eta['value']:.12f} "
          f"program={seed_report.eta:.12f}", flush=True)
    return {"eta": eta, "xi": xi, "route_at_generation": route, "source": source,
            "program_value_at_generation": {"eta": seed_report.eta, "xi": seed_report.xi}}


def rank_reference(v):
    rows = {}
    doc = v.doc
    for p in doc["prospects"]:
        if "copula" in p:
            ref = pair_reference(p["copula"], doc["target"], p["marginal"], f"{v.id}:{p['name']}")
            rows[p["name"]] = dict(ref["eta"], route_at_generation=ref["route_at_generation"],
                                   source=ref["source"])
        else:
            holds = st_holds(doc["target"], p["marginal"])
            rows[p["name"]] = {"value": float(p["gamma_bound"]) if holds else 0.0, "tol": 0.0,
                               "se": 0.0, "flags": [] if holds else ["st_check_failed", "incomparable"],
                               "source": "analytic st order of the same-family pair"}
    return {"rows": rows}


def digest_reference(v, cli, spec_dir):
    path = spec_dir / f"{v.id}.json"
    path.write_text(json.dumps(v.doc))
    argv = [v.command, "--spec", str(path), *v.argv]
    out = run.invoke(cli, argv)
    if out.code != 0 or out.error is not None:
        raise SystemExit(f"{v.id}: exit {out.code!r} {out.error or out.stderr}")
    print(f"  {v.id:<36} {out.seconds:7.3f}s {len(out.stdout)} chars", flush=True)
    return {"sha256": run.sha256(out.stdout), "chars": len(out.stdout)}


def main():
    import spcop.cli as cli

    refs = {}
    run.OUT.mkdir(exist_ok=True)
    spec_dir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT))
    try:
        for v in workloads.all_variants():
            if v.check == "eta":
                refs[v.id] = pair_reference(v.doc["copula"], v.doc["g1"], v.doc["g2"], v.id)
            elif v.check == "rank":
                refs[v.id] = rank_reference(v)
            elif v.check == "digest":
                refs[v.id] = digest_reference(v, cli, spec_dir)
            elif v.check == "probe":
                refs[v.id] = {"expect": "exit 1 with an 'error:' line on stderr"}
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {run.REFS}")


if __name__ == "__main__":
    main()
